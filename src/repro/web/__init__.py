"""Web content substrate: object model, layout, pages, ads, and corpora."""

from .ads import AD_NETWORKS, AdNetwork, ad_origins, social_origins, tracker_origins
from .corpus import CorpusGenerator, SiteProfile
from .layout import DEFAULT_VIEWPORT_HEIGHT, DEFAULT_VIEWPORT_WIDTH, LayoutRegion, Viewport
from .objects import AUXILIARY_TYPES, PARSER_BLOCKING_TYPES, ObjectType, WebObject
from .page import FetchPlan, Page

__all__ = [
    "AD_NETWORKS",
    "AdNetwork",
    "ad_origins",
    "social_origins",
    "tracker_origins",
    "CorpusGenerator",
    "SiteProfile",
    "DEFAULT_VIEWPORT_HEIGHT",
    "DEFAULT_VIEWPORT_WIDTH",
    "LayoutRegion",
    "Viewport",
    "AUXILIARY_TYPES",
    "PARSER_BLOCKING_TYPES",
    "ObjectType",
    "WebObject",
    "FetchPlan",
    "Page",
]
